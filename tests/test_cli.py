"""End-to-end command line interface checks."""

import csv
import json
import struct

import numpy as np
import pytest

from tensornorms import read_tensor
from tensornorms.cli import EXIT_INPUT, EXIT_OK, main


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGen:
    def test_seq(self, tmp_path):
        path = str(tmp_path / "seq.json")
        assert main(["gen", "--kind", "seq", "--out", path]) == EXIT_OK
        T = read_tensor(path)
        assert T.dims == (3, 3, 3)
        assert T.slices[0, 0, 0] == 3.0

    def test_orth_with_truth_sidecar(self, tmp_path):
        path = str(tmp_path / "orth.json")
        code = main(["gen", "--kind", "orth", "--dims", "3,5,5", "--r", "3",
                     "--seed", "4", "--out", path])
        assert code == EXIT_OK
        with open(path + ".truth.json") as f:
            truth = json.load(f)
        weights = [t["lambda"] for t in truth["decomposition"]]
        assert truth["spectral"] == pytest.approx(max(weights))
        assert truth["nuclear"] == pytest.approx(sum(weights))

    def test_gauss_binary(self, tmp_path):
        path = str(tmp_path / "g.bin")
        code = main(["gen", "--kind", "gauss", "--dims", "2,3,4",
                     "--seed", "1", "--out", path, "--binary"])
        assert code == EXIT_OK
        assert read_tensor(path).dims == (2, 3, 4)


class TestNorms:
    @pytest.fixture()
    def orth_file(self, tmp_path):
        path = str(tmp_path / "t.json")
        main(["gen", "--kind", "orth", "--dims", "3,5,5", "--r", "3",
              "--seed", "7", "--out", path])
        with open(path + ".truth.json") as f:
            truth = json.load(f)
        return path, truth

    def test_snorm(self, capsys, orth_file, tmp_path):
        path, truth = orth_file
        code, payload = _run_json(capsys, ["snorm", path, "--eps", "1e-2"])
        assert code == EXIT_OK
        assert payload["certified"]
        assert payload["lower"] <= truth["spectral"] + 1e-9
        assert payload["upper"] >= truth["spectral"] - 1e-9
        assert abs(payload["value"] - truth["spectral"]) <= \
            1e-2 * truth["spectral"]

    def test_nnorm(self, capsys, orth_file):
        path, truth = orth_file
        code, payload = _run_json(capsys, ["nnorm", path, "--eps", "1e-1"])
        assert code == EXIT_OK
        assert payload["converged"]
        assert payload["lower"] <= truth["nuclear"] + 1e-6
        assert payload["upper"] >= truth["nuclear"] - 1e-6
        assert payload["decomposition"]

    def test_snorm_random_grid(self, capsys, orth_file):
        path, _ = orth_file
        code, payload = _run_json(
            capsys, ["snorm", path, "--grid", "rand:300", "--seed", "2"]
        )
        assert code == EXIT_OK
        assert not payload["certified"]

    def test_output_file_and_csv(self, orth_file, tmp_path):
        path, _ = orth_file
        out = str(tmp_path / "est.csv")
        code = main(["snorm", path, "--eps", "1e-2",
                     "--out", out, "--format", "csv"])
        assert code == EXIT_OK
        with open(out, newline="") as f:
            header, row = list(csv.reader(f))
        record = dict(zip(header, row))
        assert float(record["lower"]) <= float(record["value"]) \
            <= float(record["upper"]) + 1e-12


class TestBench:
    def test_time_sweep_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(["bench", "--suite", "time", "--norm", "spectral",
                     "--ells", "2,3", "--n", "6", "--epsilons", "1e-1",
                     "--out", out])
        assert code == EXIT_OK
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(float(r["eps=0.1"]) >= 0 for r in rows)


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["snorm", "/nonexistent/t.json"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_unknown_grid(self, capsys, tmp_path):
        path = str(tmp_path / "t.json")
        main(["gen", "--kind", "gauss", "--dims", "2,3,3", "--out", path])
        assert main(["snorm", path, "--grid", "fib:9"]) == EXIT_INPUT

    def test_malformed_file(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            f.write("{not json")
        assert main(["nnorm", path]) == EXIT_INPUT

    def test_non_finite_binary_file(self, capfd, tmp_path):
        # rejected on reading, before any LAPACK routine sees the values
        path = str(tmp_path / "inf.bin")
        with open(path, "wb") as f:
            f.write(struct.pack("<3Q", 2, 3, 3))
            f.write(np.full(18, np.inf, dtype="<f8").tobytes())
        assert main(["snorm", path]) == EXIT_INPUT
        err = capfd.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert err.count("\n") == 1
        assert "DLASCL" not in err and "LinAlgError" not in err


class TestVerify:
    def test_self_checks_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out
