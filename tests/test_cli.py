"""End-to-end tests of the command-line interface."""

import json
import os

import numpy as np
import pytest

from entwitness import cli, data, nn
from entwitness.quantum import FEATURE_NAMES


def run(argv):
    return cli.main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        assert run(["gen", "--n", "500", "--seed", "7", "--out", out]) == 0
        assert os.path.exists(out)
        assert os.path.exists(data.manifest_path(out))
        assert os.path.exists(str(tmp_path / "d.config.json"))
        printed = capsys.readouterr().out
        assert "separable" in printed
        ds = data.load(out)
        assert len(ds) == 500
        assert ds.manifest["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        run(["gen", "--n", "400", "--seed", "9", "--symmetry", "cylindrical", "--out", out1])
        run(["gen", "--n", "400", "--seed", "9", "--symmetry", "cylindrical", "--out", out2])
        assert read_bytes(out1) == read_bytes(out2)
        assert read_bytes(data.manifest_path(out1)) == read_bytes(data.manifest_path(out2))

    def test_symmetry_recorded_in_manifest(self, tmp_path):
        out = str(tmp_path / "d.csv")
        run(["gen", "--n", "50", "--symmetry", "cylindrical", "--out", out])
        manifest = json.load(open(data.manifest_path(out)))
        assert manifest["symmetry"] == "cylindrical"

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--n", "0", "--out", str(tmp_path / "d.csv")])
        assert err.value.code == 2

    def test_unwritable_path_fails(self, tmp_path):
        out = str(tmp_path / "missing-dir" / "d.csv")
        assert run(["gen", "--n", "10", "--out", out]) == 1


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ds") / "train.csv")
    run(["gen", "--n", "2500", "--seed", "3", "--out", path])
    return path


class TestTrain:
    def test_writes_model_history_report(self, tmp_path, small_dataset):
        out = str(tmp_path / "model.json")
        code = run(
            ["train", "--data", small_dataset, "--arch", "linear", "--m", "3",
             "--epochs", "4", "--seed", "1", "--out", out]
        )
        assert code == 0
        model = nn.load_model(out)
        assert nn.code_weights(model).shape == (3, 15)
        history = open(str(tmp_path / "model.history.csv")).read().splitlines()
        assert history[0] == "epoch,train_loss,validation_loss,validation_accuracy"
        assert len(history) > 1
        report = json.load(open(str(tmp_path / "model.report.json")))
        assert "accuracy" in report["rates"]
        config = json.load(open(str(tmp_path / "model.config.json")))
        assert config["command"] == "train"
        assert config["m"] == 3

    def test_full_architecture(self, tmp_path, small_dataset):
        out = str(tmp_path / "full.json")
        code = run(
            ["train", "--data", small_dataset, "--arch", "full",
             "--hidden", "16,8,4", "--epochs", "3", "--out", out]
        )
        assert code == 0
        assert nn.load_model(out).architecture == "nonlinear_full"

    def test_byte_identical_reruns(self, tmp_path, small_dataset):
        args = ["train", "--data", small_dataset, "--arch", "linear", "--m", "2",
                "--epochs", "3", "--seed", "5"]
        out1 = str(tmp_path / "m1.json")
        out2 = str(tmp_path / "m2.json")
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert read_bytes(out1) == read_bytes(out2)
        assert read_bytes(str(tmp_path / "m1.history.csv")) == read_bytes(
            str(tmp_path / "m2.history.csv")
        )
        assert read_bytes(str(tmp_path / "m1.report.json")) == read_bytes(
            str(tmp_path / "m2.report.json")
        )

    def test_missing_data_file_fails(self, tmp_path):
        code = run(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    def test_linear_requires_m(self, tmp_path, small_dataset):
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--arch", "linear",
                 "--epochs", "2", "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2

    def test_bad_split_is_usage_error(self, tmp_path, small_dataset):
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--split", "0.5,0.5,0.5",
                 "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2


class TestSweep:
    def test_rows_per_seed_and_outputs(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = run(
            ["sweep", "--m", "1,2", "--sizes", "900,300,300", "--seeds", "2",
             "--epochs", "3", "--out", out]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "m,symmetry,seed,accuracy,recall_p1"
        assert len(lines) == 1 + 2 * 2
        rows = json.load(open(str(tmp_path / "sweep.json")))
        assert {r["m"] for r in rows} == {1, 2}

    def test_empty_m_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--m", "", "--out", str(tmp_path / "s.csv")])
        assert err.value.code == 2


class TestFailFast:
    """Bad arguments exit with code 2 before any data is read or model trained."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "1.5"],
            ["--threshold", "0"],
            ["--arch", "linear"],
            ["--arch", "linear", "--m", "0"],
            ["--arch", "linear", "--m", "16"],
            ["--hidden", "16,0,4"],
        ],
        ids=["threshold-above-1", "threshold-0", "linear-without-m", "m-0", "m-16", "hidden-0"],
    )
    def test_train_rejects(self, tmp_path, small_dataset, flags):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--epochs", "2", *flags,
                 "--out", str(out_dir / "m.json")])
        assert err.value.code == 2
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "flags",
        [["--m", "0,3"], ["--m", "3,16"], ["--m", "2", "--sizes", "300,0,300"]],
        ids=["m-0", "m-16", "size-0"],
    )
    def test_sweep_rejects(self, tmp_path, flags):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["sweep", *flags, "--seeds", "1", "--epochs", "1",
                 "--out", str(out_dir / "s.csv")])
        assert err.value.code == 2
        assert os.listdir(out_dir) == []


class TestWeights:
    def test_csv_layout(self, tmp_path, small_dataset, capsys):
        model_path = str(tmp_path / "m3.json")
        run(["train", "--data", small_dataset, "--arch", "linear", "--m", "3",
             "--epochs", "3", "--out", model_path])
        capsys.readouterr()
        assert run(["weights", "--model", model_path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(FEATURE_NAMES)
        assert len(lines) == 4
        assert all(len(line.split(",")) == 15 for line in lines[1:])

    def test_written_file_matches_model(self, tmp_path, small_dataset):
        model_path = str(tmp_path / "m2.json")
        run(["train", "--data", small_dataset, "--arch", "linear", "--m", "2",
             "--epochs", "3", "--out", model_path])
        out = str(tmp_path / "w.csv")
        run(["weights", "--model", model_path, "--out", out])
        rows = open(out).read().strip().split("\n")[1:]
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(matrix, nn.code_weights(nn.load_model(model_path)))

    def test_full_model_rejected(self, tmp_path, small_dataset):
        model_path = str(tmp_path / "full.json")
        run(["train", "--data", small_dataset, "--arch", "full",
             "--hidden", "8,4,2", "--epochs", "2", "--out", model_path])
        assert run(["weights", "--model", model_path]) == 1
