import csv
import json

import numpy as np
import pytest

from triqent import ghz, measure_set, rho_epsilon, sample_haar_pure, w_prime
from triqent.cli import CSV_HEADER, load_state_file, main, save_state_file


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

    def test_zero_norm_message(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "pure", "amplitudes": [[0.0, 0.0]] * 8}))
        assert main(["classify", str(path)]) == 2
        assert "norm is 0, expected 1" in capsys.readouterr().err

    def test_non_finite_pure_file(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"kind": "pure", "amplitudes": [["NaN", 0.0]] + [[0.0, 0.0]] * 7}))
        assert main(["classify", str(path)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_non_finite_mixed_file(self, tmp_path, capsys):
        rows = [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
        rows[0][1] = rows[1][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"kind": "mixed", "matrix": rows}))
        assert main(["classify", str(path)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_non_finite_tolerance(self, ghz_file, capsys):
        assert main(["classify", ghz_file, "--tol", "nan"]) == 2
        assert main(["random", "--count", "1", "--tol", "inf"]) == 2
        assert "zero_tol must be finite" in capsys.readouterr().err

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

    def test_unknown_family_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--family", "bogus", "--out", str(tmp_path / "x.csv")])

    def test_unwritable_path(self):
        assert main(["sweep", "--family", "ghz_like", "--points", "3",
                     "--out", "/nonexistent/dir/x.csv"]) == 2


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
