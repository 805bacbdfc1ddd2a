import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import triqent.cli
import triqent.families
import triqent.states
from triqent import (
    SWEEPABLE,
    DensityMatrix,
    ParamOutOfDomainError,
    PureState,
    QubitNotPresentError,
    StateFileError,
    StateTypeError,
    WrongDimensionError,
    classify_pure,
    default_grid,
    ghz,
    ghz_noise,
    measure_set,
    rho_epsilon,
    sample_haar_pure,
    sample_hs_mixed,
    sweep,
    to_density,
    w_prime,
)
from triqent.classify import _CLAIMS, _DESCRIPTION, _LABELS, DEFAULT_ZERO_TOL
from triqent.families import _sweep_chunks
from triqent.measures import STACK_CHUNK
from triqent.cli import (
    CSV_HEADER,
    MEASURE_FIELDS,
    ORACLE_FIELDS,
    _build_parser,
    _fmt,
    _write_sweep_chunk,
    load_state_file,
    main,
    save_state_file,
)
from helpers import (
    accepted_pure_states,
    default_rng_haar_stack,
    near_unit_norm_corpus,
    nested,
    per_line_sweep_chunk,
    pure_corpora,
)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    save_state_file(path, ghz())
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    save_state_file(path, w_prime())
    return str(path)


def identity_rows():
    """The rows of I / 8 as a state file writes them: [real, imaginary] pairs."""
    return [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]


def with_entry(value, rows=None, at=(2, 5)):
    """``rows`` (I / 8 by default) with entry ``at`` replaced by ``value``."""
    rows = identity_rows() if rows is None else rows
    rows[at[0]][at[1]] = value
    return rows


#: a mixed state file's "matrix" and the StateFileError message it raises
MATRIX_ERRORS = [
    pytest.param(None, "mixed state needs an 8x8 matrix of pairs", id="null"),
    pytest.param([[{"re": 0.125, "im": 0.0}] * 8] * 8, "matrix entries must be [real, imaginary] pairs",
                 id="dict-entries"),
    pytest.param(with_entry([0.0, 0.0, 0.0]), "matrix entries must be [real, imaginary] pairs", id="three-part-pair"),
    pytest.param(with_entry([[0.0, 0.0], 0.0]), "non-numeric value in matrix: [0.0, 0.0]", id="nested-pair"),
    pytest.param(with_entry([True, 0.0]), "non-numeric value in matrix: true", id="true"),
    pytest.param(with_entry(["0.1", 0.0]), 'non-numeric value in matrix: "0.1"', id="string"),
    pytest.param(with_entry([10**400, 0.0]), "value out of range: int too large to convert to float",
                 id="int-beyond-float-range"),
    pytest.param(with_entry([1e308, 0.0], with_entry([1e308, 0.0]), at=(5, 2)),
                 "entry of modulus 1.000e+308 in a Hermitian matrix of unit trace, so an eigenvalue is negative",
                 id="huge-finite-pair"),
    pytest.param(identity_rows()[:7], "mixed state needs an 8x8 matrix of pairs", id="seven-rows"),
    pytest.param(with_entry([10**400, 0.0])[:7], "mixed state needs an 8x8 matrix of pairs",
                 id="seven-rows-one-int-beyond-float-range"),
    pytest.param([row[:7] if i == 3 else row for i, row in enumerate(identity_rows())],
                 "mixed state needs an 8x8 matrix of pairs", id="row-of-seven"),
    # deeper than the 32 axes numpy iterates over
    pytest.param(nested(40), "mixed state needs an 8x8 matrix of pairs", id="forty-deep"),
]


def basis_pairs():
    """The amplitudes of |000> as a state file writes them: [real, imaginary] pairs."""
    return [[1.0, 0.0]] + [[0.0, 0.0]] * 7


def with_amplitude(value):
    """``basis_pairs()`` with amplitude 2 replaced by ``value``."""
    pairs = basis_pairs()
    pairs[2] = value
    return pairs


#: a pure state file's "amplitudes" and the StateFileError message it raises
AMPLITUDE_ERRORS = [
    pytest.param(None, "pure state needs 8 amplitude pairs", id="null"),
    pytest.param([{"re": 1.0, "im": 0.0}] * 8, "amplitudes entries must be [real, imaginary] pairs",
                 id="dict-entries"),
    pytest.param(with_amplitude([0.0, 0.0, 0.0]), "amplitudes entries must be [real, imaginary] pairs",
                 id="three-part-pair"),
    pytest.param(with_amplitude([[0.0, 0.0], 0.0]), "non-numeric value in amplitudes: [0.0, 0.0]", id="nested-pair"),
    pytest.param(with_amplitude([True, 0.0]), "non-numeric value in amplitudes: true", id="true"),
    pytest.param(with_amplitude(["0.1", 0.0]), 'non-numeric value in amplitudes: "0.1"', id="string"),
    pytest.param(with_amplitude([10**400, 0.0]), "value out of range: int too large to convert to float",
                 id="int-beyond-float-range"),
    pytest.param(with_amplitude([1e200, 0.0]), "norm is 1e+200, expected 1", id="huge-finite"),
    pytest.param(basis_pairs()[:7], "pure state needs 8 amplitude pairs", id="seven-pairs"),
    pytest.param([[1.0]] + [[0.0]] * 7, "amplitudes entries must be [real, imaginary] pairs", id="eight-by-one"),
    pytest.param(nested(40), "pure state needs 8 amplitude pairs", id="forty-deep"),
]


def assert_file_error(data, message, tmp_path, capsys):
    """The state file holding ``data`` raises exactly ``message``, from the library and from the CLI."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(StateFileError) as info:
        load_state_file(str(path))
    assert type(info.value) is StateFileError and str(info.value) == message
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestMixedFileReader:
    """The reader takes the matrix as one array; anything else keeps its error."""

    @pytest.mark.parametrize("matrix, message", MATRIX_ERRORS)
    def test_error_cases(self, matrix, message, tmp_path, capsys):
        assert_file_error({"kind": "mixed", "matrix": matrix}, message, tmp_path, capsys)

    def test_integer_parts_accepted(self, tmp_path):
        rows = [[[int(i == j == 0), 0] for j in range(8)] for i in range(8)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "mixed", "matrix": rows}))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(load_state_file(str(path)).matrix, expected)


class TestPureFileReader:
    """The reader takes the amplitudes as one array; anything else keeps its error."""

    @pytest.mark.parametrize("amplitudes, message", AMPLITUDE_ERRORS)
    def test_error_cases(self, amplitudes, message, tmp_path, capsys):
        assert_file_error({"kind": "pure", "amplitudes": amplitudes}, message, tmp_path, capsys)


class TestStateFiles:
    def test_round_trip_pure_bit_exact(self, tmp_path):
        psi = sample_haar_pure(8)
        path = tmp_path / "s.json"
        save_state_file(path, psi)
        back = load_state_file(str(path))
        assert np.array_equal(back.amplitudes, psi.amplitudes)
        assert measure_set(back).as_dict() == measure_set(psi).as_dict()

    def test_round_trip_mixed_bit_exact(self, tmp_path):
        rho = rho_epsilon(0.37)
        path = tmp_path / "m.json"
        save_state_file(path, rho)
        back = load_state_file(str(path))
        assert np.array_equal(back.matrix, rho.matrix)
        assert measure_set(back).as_dict() == measure_set(rho).as_dict()

    @staticmethod
    def assert_not_saved(tmp_path, state, error, match):
        # the state is checked before the file is opened: a new path is not
        # created and an existing file is not truncated
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        save_state_file(kept, ghz())
        before = kept.read_bytes()
        for path in (fresh, kept):
            with pytest.raises(error, match=match):
                save_state_file(path, state)
        assert not fresh.exists()
        assert kept.read_bytes() == before

    def test_save_rejects_non_state(self, tmp_path):
        self.assert_not_saved(tmp_path, "not a state", StateTypeError, "expected PureState or DensityMatrix, got str")

    def test_save_rejects_two_qubit_matrix(self, tmp_path):
        # load_state_file would reject the file: a mixed state needs an 8x8 matrix
        rho = DensityMatrix(np.eye(4) / 4, qubits=("A", "B"))
        self.assert_not_saved(tmp_path, rho, WrongDimensionError,
                              r"save_state_file needs a 3-qubit state, got layout \('A', 'B'\)")

    def test_save_rejects_permuted_layout(self, tmp_path):
        # |0>_A (x) Bell_BC laid out as (B, C, A): a file has no layout, so it
        # would load as A, B, C with qubit B entangled instead of separable;
        # the state cannot be built, so there is nothing to save
        amps = np.zeros(8)
        amps[0] = amps[6] = 1 / np.sqrt(2)
        path = tmp_path / "fresh.json"
        with pytest.raises(QubitNotPresentError, match=r"invalid qubit layout \('B', 'C', 'A'\)"):
            save_state_file(path, DensityMatrix(np.outer(amps, amps), qubits=("B", "C", "A")))
        assert not path.exists()

    def test_zero_norm_message(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "pure", "amplitudes": [[0.0, 0.0]] * 8}))
        assert main(["classify", str(path)]) == 2
        assert "norm is 0, expected 1" in capsys.readouterr().err

    def test_non_finite_pure_file(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"kind": "pure", "amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}))
        assert main(["classify", str(path)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_non_finite_mixed_file(self, tmp_path, capsys):
        rows = [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
        rows[0][1] = rows[1][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"kind": "mixed", "matrix": rows}))
        assert main(["classify", str(path)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("value", ["1", "NaN", True, False, None])
    def test_non_number_entry_rejected(self, kind, value, tmp_path, capsys):
        # a JSON string, boolean or null is not a number, even where float()
        # would read it; the state would otherwise be |000> or rho_zero
        if kind == "pure":
            what, data = "amplitudes", {"kind": kind, "amplitudes": [[value, 0]] + [[0, 0]] * 7}
        else:
            rows = [[[1 if i == j == 0 else 0, 0] for j in range(8)] for i in range(8)]
            rows[0][0] = [1, value]
            what, data = "matrix", {"kind": kind, "matrix": rows}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(StateFileError, match="non-numeric value"):
            load_state_file(str(path))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: non-numeric value in {what}: {json.dumps(value)}\n"

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("part", [lambda v: [v], lambda v: [v, 0]], ids=["one", "two"])
    def test_list_parts_rejected(self, kind, part, tmp_path, capsys):
        # with every part of every pair a list of one length, numpy reads
        # the pairs as a three-dimensional array of numbers
        def pair(re):
            return [part(re), part(0)]

        if kind == "pure":
            what, data = "amplitudes", {"kind": kind, "amplitudes": [pair(1)] + [pair(0)] * 7}
        else:
            rows = [[pair(int(i == j == 0)) for j in range(8)] for i in range(8)]
            what, data = "matrix", {"kind": kind, "matrix": rows}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(StateFileError, match="non-numeric value"):
            load_state_file(str(path))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: non-numeric value in {what}: {json.dumps(part(1))}\n"

    def test_integer_entries_accepted(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "pure", "amplitudes": [[1, 0]] + [[0, 0]] * 7}))
        assert np.array_equal(load_state_file(str(path)).amplitudes, np.eye(8)[0])

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"kind": "pure", "amplitudes": [[1' + "0" * 400 + ', 0]' + ", [0, 0]" * 7 + "]}")
        with pytest.raises(StateFileError, match="out of range"):
            load_state_file(str(path))

    @pytest.mark.parametrize("content", [
        ('{"kind": "pure", "amplitudes": [[1' + "0" * 5000 + ', 0]' + ", [0, 0]" * 7 + "]}").encode(),
        b'{"kind": "pure", "amplitudes": "\xff"}',
    ], ids=["integer-beyond-str-digits-limit", "not-utf8"])
    def test_unreadable_json_rejected(self, content, tmp_path, capsys):
        # json.load raises a plain ValueError for these, not JSONDecodeError
        path = tmp_path / "s.json"
        path.write_bytes(content)
        assert main(["classify", str(path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_non_finite_tolerance(self, ghz_file, capsys):
        assert main(["classify", ghz_file, "--tol", "nan"]) == 2
        assert main(["random", "--count", "1", "--tol", "inf"]) == 2
        assert "zero_tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_non_positive_tolerance(self, ghz_file, tol, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("state file loaded before --tol was checked")

        monkeypatch.setattr(triqent.cli, "load_state_file", no_load)
        assert main(["classify", ghz_file, "--tol", tol]) == 2
        assert main(["classify", ghz_file, "--json", "--tol", tol]) == 2
        assert main(["random", "--count", "2", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.count("error: zero_tol must be positive") == 3

    def test_tolerance_below_the_accuracy_floor(self, ghz_file, capsys):
        # at --tol 1e-16 a product projector was certified to hold an entangled pair
        assert main(["classify", ghz_file, "--tol", "1e-16"]) == 2
        assert main(["random", "--count", "2", "--tol", "1e-14"]) == 2
        assert capsys.readouterr().err.count("error: zero_tol must be at least 1e-13, the accuracy floor") == 2

    @pytest.mark.parametrize("argv", [["classify", "s.json"], ["random", "--count", "1"]])
    def test_tolerance_default_is_the_library_default(self, argv, capsys):
        assert _build_parser().parse_args(argv).tol == DEFAULT_ZERO_TOL
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert f"default {DEFAULT_ZERO_TOL:g}" in capsys.readouterr().out

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        # json.load raises RecursionError, not ValueError, for this nesting
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(StateFileError, match="is not valid JSON"):
            load_state_file(str(path))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == 2

    def test_missing_file(self):
        assert main(["classify", "/nonexistent/state.json"]) == 2


class TestClassifyCommand:
    def test_ghz(self, ghz_file, capsys):
        assert main(["classify", ghz_file]) == 0
        out = capsys.readouterr().out
        assert "2-0" in out and "GHZ-like" in out

    def test_w_json(self, w_file, capsys):
        assert main(["classify", w_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["subtype"] == "2-3"
        assert data["measures"]["n_red_bc"] == pytest.approx(0.4120226591665966, abs=1e-9)

    def test_mixed_verdict(self, tmp_path, capsys):
        path = tmp_path / "mix.json"
        save_state_file(path, rho_epsilon(0.5))
        assert main(["classify", str(path)]) == 0
        assert "reduced pair BC entangled" in capsys.readouterr().out

    def test_ambiguous_exit_code(self, tmp_path, capsys):
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4], amps[7] = 0.8, 8.333333e-9, 0.6
        path = tmp_path / "edge.json"
        from triqent import PureState

        save_state_file(path, PureState(amps / np.linalg.norm(amps)))
        assert main(["classify", str(path)]) == 3
        assert "subtype:" in capsys.readouterr().out  # report still printed

    @pytest.mark.parametrize("state, code", [
        (lambda: ghz_noise(0.2 + 4e-8), 3),  # every n_q is 5.0e-8
        (lambda: rho_epsilon(2e-8), 3),  # c_red_bc is 2.0e-8
        (lambda: rho_epsilon(1e-5), 0),
    ], ids=["ghz_noise", "rho_epsilon_near", "rho_epsilon_far"])
    def test_mixed_ambiguous_exit_code(self, state, code, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        save_state_file(path, state())
        assert main(["classify", str(path)]) == code
        out = capsys.readouterr().out
        assert out.startswith("mixed-state verdict:")  # report still printed
        assert ("warning: a decision margin is within 10x of the zero tolerance" in out) == (code == 3)
        assert main(["classify", str(path), "--json"]) == code
        assert json.loads(capsys.readouterr().out)["ambiguous"] is (code == 3)


    def test_norm_edge_projector(self, tmp_path, capsys):
        # the projector of a state at the edge of the norm bound is a density
        # matrix too: its trace is 1 to rounding, not the squared norm
        path = tmp_path / "projector.json"
        for psi in accepted_pure_states(near_unit_norm_corpus(2911, 20)):
            save_state_file(path, to_density(psi))
            assert main(["classify", str(path)]) in (0, 3)
        assert "error" not in capsys.readouterr().err


class TestMeasureCommand:
    def test_json_output(self, ghz_file, capsys):
        assert main(["measure", ghz_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_abc"] == pytest.approx(1.0, abs=1e-9)


class TestGsdCommand:
    def test_basis_state(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        amps = np.zeros(8)
        amps[0] = 1.0
        from triqent import PureState

        save_state_file(path, PureState(amps))
        assert main(["gsd", str(path)]) == 0
        out = capsys.readouterr().out
        assert "alpha    1" in out

    def test_ghz_raw_two_coefficients(self, ghz_file, capsys):
        assert main(["gsd", ghz_file, "--mode", "raw"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.707106781187") >= 2

    def test_w_pattern(self, w_file, capsys):
        assert main(["gsd", w_file]) == 0
        assert "W (subtype 2-3)" in capsys.readouterr().out

    def test_mixed_rejected(self, tmp_path):
        path = tmp_path / "mix.json"
        save_state_file(path, rho_epsilon(0.0))
        assert main(["gsd", str(path)]) == 2

    def test_norm_edge_state(self, tmp_path, capsys):
        # a state file classify accepts at the edge of the norm bound gets its
        # forms too: gsd hands out unit coefficients, which the pattern accepts
        path = tmp_path / "edge.json"
        for psi in accepted_pure_states(near_unit_norm_corpus(2911, 20)):
            save_state_file(path, psi)
            assert main(["classify", str(path)]) in (0, 3)
            for mode in ("raw", "normal"):
                assert main(["gsd", str(path), "--mode", mode]) in (0, 3)
        assert "error" not in capsys.readouterr().err


class TestSweepCommand:
    def read(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_ghz_like_three_points(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["sweep", "--family", "ghz_like", "--points", "3", "--out", str(out)]) == 0
        rows = self.read(out)
        params = [float(r["param"]) for r in rows]
        assert params == pytest.approx([0.0, 1 / (2 * np.sqrt(2)), 1 / np.sqrt(2)])
        assert float(rows[-1]["n_abc"]) == pytest.approx(1.0, abs=1e-9)

    def test_ghz_noise_deviation_columns(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["sweep", "--family", "ghz_noise", "--points", "11", "--out", str(out)]) == 0
        for row in self.read(out):
            assert float(row["dev_n_abc"]) < 1e-9
            assert row["q_mult"] == ""  # no pure-only entries for mixed states

    def test_sigma_b_ppt_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", "sigma_b", "--points", "9", "--out", str(out)]) == 0
        for row in self.read(out):
            assert float(row["n_a_bc"]) < 1e-10
            assert float(row["dev_n_b_ac"]) < 1e-9

    def test_sigma_b_full_grid(self, tmp_path):
        # the 101-point grid includes b = 2/102, which the 9-point grid skips
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", "sigma_b", "--points", "101", "--out", str(out)]) == 0
        assert len(self.read(out)) == 101

    def test_header_stable_across_families(self, tmp_path):
        headers = []
        for family in ("ghz_like", "rho_epsilon"):
            out = tmp_path / f"{family}.csv"
            main(["sweep", "--family", family, "--points", "3", "--out", str(out)])
            with open(out, encoding="utf-8", newline="") as fh:
                headers.append(fh.readline())
        assert headers[0] == headers[1]
        assert headers[0].rstrip("\n").split(",") == CSV_HEADER

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["sweep", "--family", "ghz_like", "--points", "3", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize("family", ["ghz_like", "sigma_b"])
    def test_point_count_beyond_an_index(self, family, tmp_path, capsys):
        # ghz_like printed numpy's IndexError, and sigma_b's grid came out empty
        out = tmp_path / "huge.csv"
        assert main(["sweep", "--family", family, "--points", str(sys.maxsize), "--out", str(out)]) == 2
        assert "error: points must be an integer from 1 to sys.maxsize // 16" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--family", "bogus", "--out", str(tmp_path / "x.csv")])

    def test_unwritable_path(self):
        assert main(["sweep", "--family", "ghz_like", "--points", "3",
                     "--out", "/nonexistent/dir/x.csv"]) == 2


def reference_sweep_csv(family, points):
    """The sweep CSV of a family as a csv.writer over the rows of ``sweep``, one _fmt call per cell."""
    spec = default_grid(family, points)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sweep(spec):
        cells = [spec.family, _fmt(row.params[0])]
        cells += [_fmt(getattr(row.measures, f)) for f in MEASURE_FIELDS]
        cells.append(row.verdict)
        cells += [_fmt(row.oracle_values.get(f)) for f in ORACLE_FIELDS]
        cells += [_fmt(row.deviations.get(f)) for f in ORACLE_FIELDS]
        writer.writerow(cells)
    return fh.getvalue()


class TestSweepTemplate:
    """The streamed, templated CSV equals a csv.writer over the ``sweep`` rows, byte for byte."""

    @pytest.mark.parametrize("points", [1, 101, 2500])  # 2500 crosses two chunk boundaries
    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_matches_csv_writer(self, family, points, tmp_path):
        out = tmp_path / f"{family}.csv"
        assert main(["sweep", "--family", family, "--points", str(points), "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw == reference_sweep_csv(family, points).encode("utf-8")
        with open(out, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert len(table) == points + 1
        assert all(len(row) == len(CSV_HEADER) for row in table)

    def test_no_cell_needs_quoting(self):
        # the template writes cells unquoted, so no family name, pure subtype
        # code or mixed claim may hold a separator, a quote or a line break
        # (a %.12g number holds none of them)
        for text in (*SWEEPABLE, *_DESCRIPTION, *_CLAIMS, *CSV_HEADER):
            assert not set(text) & set(',"\r\n'), text

    @pytest.mark.parametrize("points", [101, STACK_CHUNK + 1])  # one chunk, then two
    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_chunk_matches_per_line_formatter(self, family, points):
        chunks = list(_sweep_chunks(default_grid(family, points)))
        assert len(chunks) == -(-points // STACK_CHUNK)
        for chunk in chunks:
            fh = io.StringIO()
            _write_sweep_chunk(fh, family, chunk)
            assert fh.getvalue() == per_line_sweep_chunk(family, chunk)

    def test_no_template_text_holds_a_percent(self):
        # the family name and each row's verdict, a pure subtype code or a
        # mixed claim list, are written into the chunk's %-template
        for text in (*SWEEPABLE, *_CLAIMS, *(label.code for label in _LABELS)):
            assert "%" not in text, text

    def test_failed_sweep_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a domain that ends at p = 0.9, in the third chunk of 2500 points,
        # after two chunks of lines are written; a chunk step raises its
        # own error, since only the grid check names the params
        record = triqent.families._FAMILIES["ghz_noise"]

        def broken(rows):
            triqent.states._raise_first(~(rows[:, 0] <= 0.9), ParamOutOfDomainError,
                                        lambda i: f"broken ghz_noise needs p <= 0.9, got {rows[i, 0]}")
            return record.closed_form(rows)

        monkeypatch.setitem(triqent.families._FAMILIES, "ghz_noise", record._replace(closed_form=broken))
        out = tmp_path / "n.csv"
        assert main(["sweep", "--family", "ghz_noise", "--points", "2500", "--out", str(out)]) == 2
        assert not out.exists()
        first = 2250 / 2499  # the first grid point beyond 0.9
        assert capsys.readouterr().err == f"error: broken ghz_noise needs p <= 0.9, got {first!r}\n"

    def test_memory_bounded(self, tmp_path, capsys):
        # each chunk's lines are written as they are made, so three more
        # chunks of rows are never held at once
        out = tmp_path / "n.csv"
        assert main(["sweep", "--family", "ghz_noise", "--points", "8", "--out", str(out)]) == 0
        peaks = []
        for points in (STACK_CHUNK, 4 * STACK_CHUNK):
            tracemalloc.start()
            try:
                assert main(["sweep", "--family", "ghz_noise", "--points", str(points), "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.15 * peaks[0]


def _per_state_report(amplitudes, tol: float) -> list[str]:
    """The lines of a ``random`` report on these amplitude rows, each state classified alone."""
    lines, histogram = [], {}
    for i, amps in enumerate(amplitudes):
        res = classify_pure(PureState(amps), zero_tol=tol)
        code = res.label.code + ("?" if res.ambiguous else "")
        histogram[code] = histogram.get(code, 0) + 1
        ms = res.measures
        values = {k: format(getattr(ms, k), ".12g") for k in ("n_abc", "q_mult", "eta_mult", "three_tangle")}
        lines.append(f"{i}\t{code}\t" + "\t".join(f"{k}={v}" for k, v in values.items()))
    lines.append("subtype histogram:")
    lines += [f"  {code}\t{histogram[code]}" for code in sorted(histogram)]
    return lines


def replayed_draws(rows):
    """A stand-in for ``_haar_draws`` that hands out the successive rows of ``rows``."""
    taken = 0

    def draws(rng, count):
        nonlocal taken
        block = rows[taken:taken + count]
        assert len(block) == count, "drew past the end of the fixed sample"
        taken += count
        return block

    return draws


class TestRandomCommand:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["random", "--count", "50", "--seed", "7", "--out", str(a)]) == 0
        assert main(["random", "--count", "50", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_state(self, capsys):
        assert main(["random", "--count", "1", "--seed", "3"]) == 0
        assert "subtype histogram" in capsys.readouterr().out

    def test_w_like_majority(self, capsys):
        # a 10^5-sample Monte-Carlo put the 2-3 fraction at 1.0 for Haar states
        assert main(["random", "--count", "200", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        hist = {}
        for line in out.splitlines():
            if line.startswith("  2-") or line.startswith("  0-") or line.startswith("  1^"):
                code, count = line.split()
                hist[code] = int(count)
        assert hist.get("2-3", 0) > sum(hist.values()) / 2

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.1])
    def test_chunked_report_matches_per_state_loop(self, tol, tmp_path):
        # 1e-3 and 0.1 put ambiguous (?) and separable codes into the report;
        # the seeds span one to six 32-bit words
        count = STACK_CHUNK + 3  # spans a chunk boundary
        for seed in (7, 2**32 - 500, 2**64 - 500, 2**128 + 5, 2**160):
            out = tmp_path / f"r{seed}.txt"
            argv = ["random", "--count", str(count), "--seed", str(seed), "--tol", repr(tol), "--out", str(out)]
            assert main(argv) == 0
            assert out.read_text().splitlines() == _per_state_report(default_rng_haar_stack(seed, count), tol), seed

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    def test_report_over_every_code(self, tol, tmp_path, monkeypatch):
        # a fixed sample of 2703 rows, three chunks, that holds every code,
        # plain and marked "?", at both tolerances
        corpora = pure_corpora()
        rows = np.concatenate([corpora["named"], corpora["hidden"],
                               *(corpora[name][:600] for name in ("haar", "near", "sparse"))])
        monkeypatch.setattr(triqent.cli, "_haar_draws", replayed_draws(rows))
        out = tmp_path / "r.txt"
        assert main(["random", "--count", str(len(rows)), "--tol", repr(tol), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == _per_state_report(rows, tol)
        assert {line.split("\t")[1] for line in lines[:len(rows)]} == {c + m for c in _DESCRIPTION for m in ("", "?")}

    @pytest.mark.parametrize("command", [["random", "--count", "2"], ["sweep", "--family", "ghz_like", "--points", "3"]])
    def test_empty_out_path_fails_to_open(self, command, capsys):
        # an empty --out is a path that cannot be opened, not a request for stdout
        assert main([*command, "--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**160])
    def test_line_zero_is_sample_haar_pure(self, seed, capsys):
        assert main(["random", "--count", "1", "--seed", str(seed)]) == 0
        expected = _per_state_report([sample_haar_pure(seed).amplitudes], DEFAULT_ZERO_TOL)
        assert capsys.readouterr().out.splitlines() == expected

    def test_adjacent_seeds_share_no_state(self, tmp_path):
        # each seed is its own stream, so seed 42 does not replay seed 41
        # from its second state on
        states = []
        for seed in (41, 42):
            out = tmp_path / f"r{seed}.txt"
            assert main(["random", "--count", "50", "--seed", str(seed), "--out", str(out)]) == 0
            states.append({line.split("\t", 1)[1] for line in out.read_text().splitlines()[:50]})
        assert len(states[0]) == len(states[1]) == 50
        assert not states[0] & states[1]

    def test_draws_are_not_validated_again(self, tmp_path, monkeypatch):
        # _haar_draws normalizes each row, so the states random reports are
        # derived, not entered, and it calls no validator
        count = STACK_CHUNK + 3
        expected = _per_state_report(default_rng_haar_stack(7, count), DEFAULT_ZERO_TOL)

        def fail(*args, **kwargs):
            raise AssertionError("random called a validator")

        for name in ("_validated_amplitudes", "_validated_matrices"):
            monkeypatch.setattr(triqent.states, name, fail)
            monkeypatch.setattr(triqent.cli, name, fail, raising=False)
        out = tmp_path / "r.txt"
        assert main(["random", "--count", str(count), "--seed", "7", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == expected

    def test_report_memory_bounded(self):
        # each chunk's lines are written as they are made, so nine more
        # chunks of report lines (about 1 MB) are never held at once
        assert main(["random", "--count", "8", "--out", os.devnull]) == 0
        peaks = []
        for chunks in (3, 12):
            tracemalloc.start()
            try:
                assert main(["random", "--count", str(chunks * STACK_CHUNK), "--out", os.devnull]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6

    def test_non_finite_tolerance(self, capsys):
        assert main(["random", "--count", "2", "--tol", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("count, seed", [(2, -5), (1, -1), (2 * STACK_CHUNK + 5, -STACK_CHUNK - 3)])
    def test_negative_seed_rejected_before_drawing(self, count, seed, tmp_path, capsys, monkeypatch):
        # the last case spans three chunks; no generator is made, nor any chunk drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("drew with a negative seed")

        monkeypatch.setattr(triqent.cli.np.random, "default_rng", no_draws)
        monkeypatch.setattr(triqent.cli, "_haar_draws", no_draws)
        out = tmp_path / "r.txt"
        assert main(["random", "--count", str(count), "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert not out.exists()

    def test_zero_seed_accepted(self, capsys):
        assert main(["random", "--count", "2", "--seed", "0"]) == 0
        assert capsys.readouterr().out.startswith("0\t")

    @staticmethod
    def cli_process(*argv, stdout):
        """``python -m triqent.cli ARGV`` as a subprocess, importing this package.

        Its stdout is block-buffered, as Python's default is for a pipe,
        even where PYTHONUNBUFFERED is set.
        """
        src = os.path.dirname(os.path.dirname(triqent.cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "triqent.cli", *argv]
        return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)

    def test_closed_pipe_ends_the_output(self):
        # the report is far larger than a pipe's buffer, so the writer is
        # still writing when its reader closes after one line
        with self.cli_process("random", "--count", "5000", "--seed", "7", stdout=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"0\t")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_closed_pipe_ends_a_short_report(self):
        # the reader is gone before the one-line report leaves stdout's
        # buffer, so the write fails only when that buffer is flushed
        read_end, write_end = os.pipe()
        os.close(read_end)
        with self.cli_process("random", "--count", "1", stdout=write_end) as proc:
            os.close(write_end)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_non_integer_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", "--count", "2", "--seed", "1.5"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


def run(argv, parse=None):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if parse is None:
            code = main(argv)
        else:
            args = parse(argv)
            code = args.func(args)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    @pytest.fixture
    def mixed_file(self, tmp_path):
        path = tmp_path / "mix.json"
        save_state_file(path, rho_epsilon(0.37))
        return str(path)

    def test_parser_built_once(self, ghz_file, mixed_file, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        _build_parser.cache_clear()
        calls = [
            ["classify", ghz_file],
            ["classify", mixed_file, "--json"],
            ["classify", ghz_file, "--tol", "1e-6"],
            ["measure", mixed_file, "--json"],
            ["gsd", ghz_file, "--mode", "normal"],
            ["random", "--count", "2", "--seed", "4"],
            ["sweep", "--family", "ghz_like", "--points", "3", "--out", str(tmp_path / "g.csv")],
        ]
        codes = [run(calls[i % len(calls)])[0] for i in range(20)]
        assert codes == [0] * 20
        assert built.count("triqent") == 1
        assert len(built) == 6  # the parser and its five subcommands, each built once

    def test_no_option_carries_over(self, ghz_file, monkeypatch):
        tols = []
        real = triqent.cli.classify_pure

        def record(psi, zero_tol):
            tols.append(zero_tol)
            return real(psi, zero_tol=zero_tol)

        monkeypatch.setattr(triqent.cli, "classify_pure", record)
        _, json_out, _ = run(["classify", ghz_file, "--json"])
        _, text_out, _ = run(["classify", ghz_file])
        assert json.loads(json_out)["subtype"] == "2-0"
        assert text_out.startswith("subtype: 2-0 (GHZ-like)\n")
        run(["classify", ghz_file, "--tol", "1e-6"])
        run(["classify", ghz_file])
        assert tols == [DEFAULT_ZERO_TOL, DEFAULT_ZERO_TOL, 1e-6, DEFAULT_ZERO_TOL]

    def test_help_and_usage_errors_after_reuse(self, ghz_file, capsys):
        for _ in range(2):
            assert main(["classify", ghz_file]) == 0
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "usage: triqent" in capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:
                main(["classify"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage: triqent classify" in err and "required: path" in err

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_output_matches_a_fresh_parser(self, kind, ghz_file, mixed_file):
        path = ghz_file if kind == "pure" else mixed_file
        argv = ["classify", path, "--json"]
        run(argv)  # the cached parser has served a call before
        fresh = _build_parser.__wrapped__().parse_args
        assert run(argv) == run(argv, parse=fresh)


#: run in a fresh interpreter: ``sweep``, ``random`` and ``classify FILE``,
#: then the loaded top-level modules of the optional accelerator stacks
IMPORT_GUARD = """
import contextlib, io, json, sys
from triqent.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["sweep", "--family", "sigma_b", "--points", "11", "--out", sys.argv[1] + "/sweep.csv"]))
    codes.append(main(["random", "--count", "20", "--seed", "3"]))
    codes.append(main(["classify", sys.argv[2]]))
print(json.dumps({"codes": codes, "loaded": sorted({n.split(".")[0] for n in sys.modules} & {"scipy", "numba"})}))
"""


def test_commands_import_neither_scipy_nor_numba(tmp_path):
    # the package needs numpy alone; a stray import of an installed scipy
    # or numba would pass every other test
    path = str(tmp_path / "hs.json")
    save_state_file(path, sample_hs_mixed(8))
    src = os.path.dirname(os.path.dirname(triqent.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path), path],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "loaded": []}
